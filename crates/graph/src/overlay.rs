//! Delta-applied dynamic topology: a CSR base plus a small edit overlay.
//!
//! The immutable CSR [`Graph`] is what the simulators' hot loops read;
//! rebuilding it after every edge event costs `O(n + m)`, which caps how
//! much churn a scenario can sustain on large graphs. This module makes
//! edge events cheap instead:
//!
//! * [`TopologyDelta`] batches add/remove-edge mutations (one scenario
//!   event's worth — a single edge, a partition cut, a heal);
//! * [`OverlayGraph`] holds a CSR base plus per-node sorted overlay
//!   vectors of added and removed neighbors. Applying a delta is
//!   `O(deg)` per edge; neighbor iteration is a sorted three-way merge
//!   over `base − removed + added`; and once enough edits accumulate
//!   the overlay **compacts** — rebuilds the CSR base in `O(n + m)` and
//!   clears the overlay — keeping iteration overhead bounded and the
//!   amortized per-edit cost `O(deg)`.
//!
//! Deltas are assumed valid against the current edge set (the scenario
//! engine checks each edit against the live topology first, with
//! [`Topology::check_add_edge`](crate::Topology::check_add_edge) and
//! [`Topology::check_remove_edge`](crate::Topology::check_remove_edge));
//! applying an add for an existing edge or a remove for a missing one
//! panics, as it means the caller's edge bookkeeping is wrong.
//!
//! # Example
//!
//! ```
//! use bfw_graph::{generators, NodeId, OverlayGraph, TopologyDelta};
//!
//! let mut ov = OverlayGraph::from_graph(generators::cycle(6));
//! let mut delta = TopologyDelta::new();
//! delta.remove_edge(NodeId::new(0), NodeId::new(1));
//! delta.add_edge(NodeId::new(0), NodeId::new(3));
//! ov.apply(&delta);
//! assert_eq!(ov.edge_count(), 6);
//! assert!(ov.has_edge(NodeId::new(0), NodeId::new(3)));
//! let nbrs: Vec<usize> = ov.neighbors(NodeId::new(0)).map(|v| v.index()).collect();
//! assert_eq!(nbrs, [3, 5]);
//! ```

use crate::{Graph, NodeId};

/// A batch of undirected edge mutations, applied atomically by
/// [`OverlayGraph::apply`].
///
/// Edges are normalized to `(min, max)` orientation on insertion.
/// Removals are applied before additions, so a delta that removes and
/// re-adds the same edge is a no-op on the edge set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyDelta {
    added: Vec<(NodeId, NodeId)>,
    removed: Vec<(NodeId, NodeId)>,
}

impl TopologyDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        TopologyDelta::default()
    }

    /// Records the insertion of the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.added.push((u.min(v), u.max(v)));
    }

    /// Records the removal of the undirected edge `{u, v}`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.removed.push((u.min(v), u.max(v)));
    }

    /// Edges this delta inserts, as normalized `(min, max)` pairs.
    pub fn added(&self) -> &[(NodeId, NodeId)] {
        &self.added
    }

    /// Edges this delta removes, as normalized `(min, max)` pairs.
    pub fn removed(&self) -> &[(NodeId, NodeId)] {
        &self.removed
    }

    /// Total number of recorded mutations.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Returns `true` if the delta records no mutations.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A CSR graph with a delta overlay: edits in `O(deg)`, iteration via a
/// sorted merge, periodic compaction back to a plain CSR.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: Graph,
    /// Per-node sorted neighbors added on top of the base.
    added: Vec<Vec<NodeId>>,
    /// Per-node sorted neighbors removed from the base (always a subset
    /// of the base adjacency).
    removed: Vec<Vec<NodeId>>,
    edge_count: usize,
    /// Undirected edits applied since the last compaction.
    pending: usize,
    /// Compact once `pending` reaches this many edits.
    compact_threshold: usize,
}

impl OverlayGraph {
    /// Wraps a CSR snapshot with an empty overlay.
    pub fn from_graph(base: Graph) -> Self {
        let n = base.node_count();
        let edge_count = base.edge_count();
        OverlayGraph {
            base,
            added: vec![Vec::new(); n],
            removed: vec![Vec::new(); n],
            edge_count,
            pending: 0,
            // Amortize the O(n + m) compaction over Θ(n) edits: the
            // per-edit share is O((n + m)/n) = O(average degree).
            compact_threshold: (n / 4).max(16),
        }
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.base.node_count()
    }

    /// Returns the number of undirected edges (base and overlay
    /// combined).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns the degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u.index();
        self.base.degree(u) - self.removed[i].len() + self.added[i].len()
    }

    /// Returns `true` if `{u, v}` is currently an edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let i = u.index();
        if self.added[i].binary_search(&v).is_ok() {
            return true;
        }
        self.base.has_edge(u, v) && self.removed[i].binary_search(&v).is_err()
    }

    /// Iterates the current neighbors of `u` in ascending order
    /// (`base(u) − removed(u)`, merged with `added(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> OverlayNeighbors<'_> {
        let i = u.index();
        OverlayNeighbors {
            base: self.base.neighbors(u),
            removed: &self.removed[i],
            added: &self.added[i],
            base_pos: 0,
            removed_pos: 0,
            added_pos: 0,
        }
    }

    /// Number of edits applied since the last compaction (0 right after
    /// construction or [`compact`](Self::compact)).
    pub fn pending_edits(&self) -> usize {
        self.pending
    }

    /// Applies a batch of edge mutations: removals first, then
    /// additions, each in `O(deg)`. Compacts automatically once the
    /// accumulated overlay reaches the threshold.
    ///
    /// # Panics
    ///
    /// Panics if a removed edge is absent or an added edge already
    /// present — the caller's edge bookkeeping has diverged from the
    /// overlay.
    pub fn apply(&mut self, delta: &TopologyDelta) {
        for &(u, v) in delta.removed() {
            self.remove_half(u, v);
            self.remove_half(v, u);
            self.edge_count -= 1;
        }
        for &(u, v) in delta.added() {
            self.add_half(u, v);
            self.add_half(v, u);
            self.edge_count += 1;
        }
        self.pending += delta.len();
        if self.pending >= self.compact_threshold {
            self.compact();
        }
    }

    fn remove_half(&mut self, u: NodeId, v: NodeId) {
        let i = u.index();
        if let Ok(pos) = self.added[i].binary_search(&v) {
            self.added[i].remove(pos);
            return;
        }
        assert!(
            self.base.has_edge(u, v),
            "delta removes missing edge ({u}, {v})"
        );
        match self.removed[i].binary_search(&v) {
            Ok(_) => panic!("delta removes missing edge ({u}, {v})"),
            Err(pos) => self.removed[i].insert(pos, v),
        }
    }

    fn add_half(&mut self, u: NodeId, v: NodeId) {
        let i = u.index();
        if let Ok(pos) = self.removed[i].binary_search(&v) {
            self.removed[i].remove(pos);
            return;
        }
        assert!(
            !self.base.has_edge(u, v),
            "delta adds duplicate edge ({u}, {v})"
        );
        match self.added[i].binary_search(&v) {
            Ok(_) => panic!("delta adds duplicate edge ({u}, {v})"),
            Err(pos) => self.added[i].insert(pos, v),
        }
    }

    /// Rebuilds the CSR base from the current edge set and clears the
    /// overlay. `O(n + m)`; called automatically by
    /// [`apply`](Self::apply) every `compact_threshold` edits.
    pub fn compact(&mut self) {
        if self.pending == 0 {
            return;
        }
        self.base = self.to_graph();
        for v in &mut self.added {
            v.clear();
        }
        for v in &mut self.removed {
            v.clear();
        }
        self.pending = 0;
    }

    /// Materializes the current edge set as an immutable CSR snapshot.
    pub fn to_graph(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.edge_count);
        for u in 0..self.node_count() {
            let u = NodeId::new(u);
            for v in self.neighbors(u) {
                if u < v {
                    edges.push((u.as_u32(), v.as_u32()));
                }
            }
        }
        Graph::from_sorted_unique_edges(self.node_count(), &edges)
    }
}

impl From<Graph> for OverlayGraph {
    fn from(g: Graph) -> Self {
        OverlayGraph::from_graph(g)
    }
}

/// Sorted neighbor iterator of an [`OverlayGraph`] node, created by
/// [`OverlayGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct OverlayNeighbors<'a> {
    base: &'a [NodeId],
    removed: &'a [NodeId],
    added: &'a [NodeId],
    base_pos: usize,
    removed_pos: usize,
    added_pos: usize,
}

impl Iterator for OverlayNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let base = self.base.get(self.base_pos).copied();
            let added = self.added.get(self.added_pos).copied();
            match (base, added) {
                (None, None) => return None,
                (None, Some(a)) => {
                    self.added_pos += 1;
                    return Some(a);
                }
                (Some(b), added) => {
                    if added.is_some_and(|a| a < b) {
                        self.added_pos += 1;
                        return added;
                    }
                    self.base_pos += 1;
                    // Skip base neighbors struck out by the overlay; the
                    // removed list is sorted, so one cursor suffices.
                    while self.removed_pos < self.removed.len()
                        && self.removed[self.removed_pos] < b
                    {
                        self.removed_pos += 1;
                    }
                    if self.removed.get(self.removed_pos) == Some(&b) {
                        self.removed_pos += 1;
                        continue;
                    }
                    return Some(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn nbrs(ov: &OverlayGraph, u: usize) -> Vec<usize> {
        ov.neighbors(NodeId::new(u)).map(|v| v.index()).collect()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = generators::grid(3, 4);
        let mut ov = OverlayGraph::from_graph(g.clone());
        ov.apply(&TopologyDelta::new());
        assert_eq!(ov.to_graph(), g);
        assert_eq!(ov.pending_edits(), 0);
    }

    #[test]
    fn add_and_remove_show_up_in_neighbors() {
        let mut ov = OverlayGraph::from_graph(generators::cycle(6));
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(5));
        delta.add_edge(NodeId::new(0), NodeId::new(2));
        delta.add_edge(NodeId::new(0), NodeId::new(3));
        ov.apply(&delta);
        assert_eq!(nbrs(&ov, 0), [1, 2, 3]);
        assert_eq!(nbrs(&ov, 5), [4]);
        assert_eq!(ov.degree(NodeId::new(0)), 3);
        assert_eq!(ov.edge_count(), 7);
        assert!(ov.has_edge(NodeId::new(3), NodeId::new(0)));
        assert!(!ov.has_edge(NodeId::new(5), NodeId::new(0)));
    }

    #[test]
    fn remove_then_readd_round_trips() {
        let g = generators::cycle(5);
        let mut ov = OverlayGraph::from_graph(g.clone());
        let mut cut = TopologyDelta::new();
        cut.remove_edge(NodeId::new(1), NodeId::new(2));
        ov.apply(&cut);
        let mut heal = TopologyDelta::new();
        heal.add_edge(NodeId::new(2), NodeId::new(1));
        ov.apply(&heal);
        assert_eq!(ov.to_graph(), g);
    }

    #[test]
    fn overlay_add_then_remove_cancels() {
        let mut ov = OverlayGraph::from_graph(generators::path(4));
        let mut add = TopologyDelta::new();
        add.add_edge(NodeId::new(0), NodeId::new(3));
        ov.apply(&add);
        let mut rm = TopologyDelta::new();
        rm.remove_edge(NodeId::new(0), NodeId::new(3));
        ov.apply(&rm);
        assert_eq!(ov.to_graph(), generators::path(4));
        assert_eq!(nbrs(&ov, 0), [1]);
    }

    #[test]
    fn compaction_preserves_the_edge_set() {
        let mut ov = OverlayGraph::from_graph(generators::cycle(8));
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(1));
        delta.add_edge(NodeId::new(0), NodeId::new(4));
        ov.apply(&delta);
        let before = ov.to_graph();
        ov.compact();
        assert_eq!(ov.pending_edits(), 0);
        assert_eq!(ov.to_graph(), before);
        assert_eq!(nbrs(&ov, 0), [4, 7]);
    }

    #[test]
    fn automatic_compaction_after_threshold() {
        let mut ov = OverlayGraph::from_graph(generators::cycle(8));
        // Threshold is max(16, n/4) = 16; 16 paired edits trip it.
        for _ in 0..8 {
            let mut delta = TopologyDelta::new();
            delta.remove_edge(NodeId::new(0), NodeId::new(1));
            delta.add_edge(NodeId::new(0), NodeId::new(1));
            ov.apply(&delta);
        }
        assert_eq!(ov.pending_edits(), 0, "16 edits must have compacted");
        assert_eq!(ov.to_graph(), generators::cycle(8));
    }

    #[test]
    #[should_panic(expected = "removes missing edge")]
    fn removing_absent_edge_panics() {
        let mut ov = OverlayGraph::from_graph(generators::path(4));
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(3));
        ov.apply(&delta);
    }

    #[test]
    #[should_panic(expected = "adds duplicate edge")]
    fn adding_present_edge_panics() {
        let mut ov = OverlayGraph::from_graph(generators::path(4));
        let mut delta = TopologyDelta::new();
        delta.add_edge(NodeId::new(0), NodeId::new(1));
        ov.apply(&delta);
    }

    #[test]
    fn delta_accessors() {
        let mut delta = TopologyDelta::new();
        assert!(delta.is_empty());
        delta.add_edge(NodeId::new(3), NodeId::new(1));
        delta.remove_edge(NodeId::new(2), NodeId::new(0));
        assert_eq!(delta.len(), 2);
        assert!(!delta.is_empty());
        // Normalized orientation.
        assert_eq!(delta.added(), [(NodeId::new(1), NodeId::new(3))]);
        assert_eq!(delta.removed(), [(NodeId::new(0), NodeId::new(2))]);
    }
}
